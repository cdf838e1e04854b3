"""The fairdiv benchmark: one closed-loop caller driving the fairdiv CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: solve-small, solve-large, verify-large (see gen.py for what each
holds and why). The benchmark generates the workload's input files from
the seed, then calls ``fairdiv.cli.main([...])`` in this process, one
operation after another with stdout captured, round after round until S
seconds of operations have passed and at least one round is whole. Between
operations, every S/10 seconds, it times a fresh interpreter importing
``fairdiv.cli`` and loading a round's input files. Every output is then
checked by property against independent oracles (check.py).

End-to-end times are in seconds at reference speed: each wall time is
scaled by how long the benchmark's own reference workload took just before
and after it, against how long it takes at reference speed (gauge.py). On
a shared host the wall time of one operation moves by up to 1.6 times from
minute to minute; its scaled time does not. The report also prints the
unscaled wall-clock figures. An operation's slot is its place in its round
(gen.py); each slot's time is its median scaled time over the rounds run.
``ops_per_s`` is the slots of a round over the sum of their times, times
the share of operations that were correct: a round's throughput.
``op_p50_s`` is the median of the slot times; ``setup_s`` the median scaled
set-up time; ``peak_rss_mib`` the process's peak resident memory.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` every operation runs twice, once
plain and once with spans recorded around fairdiv's public functions
(spans.py), alternating which goes first. The last line then carries the
per-layer metrics, including ``trace.overhead``: traced over plain
operation time, both at reference speed, minus one. The spans are written to
``.bench_work/trace-<workload>-seed<N>.json``.

Lines before the last one are a readable report; it also gives
``failed_ratio``, the tail latency and the known-defect probe. The probe,
on verify-large, runs ``verify --property po`` once on one agent with
1,500 items, outside the measured stream: the search recurses once per
item and raises RecursionError. Its outcome is the per-layer metric
``verify.po_deep_failed`` rather than a count in ``failed``, so that the
measured stream stays one on which no operation is expected to fail.

Standard library only. Run from anywhere; paths are resolved against the
checkout this file sits in, and nothing is written outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import check  # noqa: E402
import gauge as gauge_mod  # noqa: E402
import gen  # noqa: E402
from gauge import Gauge  # noqa: E402

SETUP_REPS = 10
SETUP_TIMEOUT = 60
SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fairdiv.cli\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        json.load(fh)\n"
)


@dataclass
class Run:
    """One execution of an operation: exit code, or what it raised."""

    code: object
    stdout: str
    seconds: float
    raised: str = None


def run_op(main, argv, tracer=None, op_id=None) -> Run:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv) if tracer is None else tracer.operation(op_id, main, argv)
    except (Exception, SystemExit) as exc:
        raised = type(exc).__name__
    seconds = perf_counter() - start
    return Run(code, out.getvalue(), seconds, raised)


def run_twins(main, argv, tracer, op_id, gauge: Gauge):
    """Run an operation plain and traced, alternating which goes first so
    that warm-up favours neither, with a gauge reading between the two.
    Returns (plain, traced)."""
    def run_traced():
        with tracer.installed():
            return run_op(main, argv, tracer, op_id)

    if op_id % 2:
        traced = run_traced()
        gauge.read()
        plain = run_op(main, argv)
    else:
        plain = run_op(main, argv)
        gauge.read()
        traced = run_traced()
    return plain, traced


def twin_scales(gauge: Gauge, readings) -> list:
    """(plain, traced) scale factor of each operation run as twins: the
    first twin runs between readings j and j + 1, the second after j + 1."""
    out = []
    for op_id, j in enumerate(readings):
        first, second = gauge.scale(j), gauge.scale(j + 1)
        out.append((second, first) if op_id % 2 else (first, second))
    return out


def problems(op, run: Run, instances: dict) -> list:
    if run.raised:
        return [f"raised {run.raised}"]
    spec = op["check"]
    if spec["kind"] == "solve":
        path = spec["instance"]
        if path not in instances:
            instances[path] = check.load_instance(path)
        return check.check_solve(instances[path], run.code, run.stdout)
    return check.check_verify(spec, run.code, run.stdout)


def tally(done, instances) -> int:
    """Check every operation's output; returns how many failed. A traced
    operation fails if either of its runs does or their outputs differ."""
    failed = 0
    for op, plain, traced in done:
        found = problems(op, plain, instances)
        if traced is not None:
            found += problems(op, traced, instances)
            if not found and traced.stdout != plain.stdout:
                found.append("traced output differs from the plain one")
        if found:
            failed += 1
            print(f"FAILED {' '.join(op['argv'])}: {'; '.join(found[:3])}", file=sys.stderr)
    return failed


def tail(samples):
    """(percentile, value) for the highest whole percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    p = math.floor(100 * (1 - 10 / len(samples)))
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]


def generate(workload, seed, out) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", out], check=True, timeout=150)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _took_too_long(signum, frame):
    raise TimeoutError(f"a set-up run took over {SETUP_TIMEOUT} s")


def _run_child(argv) -> None:
    # Popen.wait(timeout) polls in steps of up to 50 ms, which would round
    # a timed child up to the next step; a plain wait blocks in waitpid,
    # and an alarm bounds it instead.
    proc = subprocess.Popen(argv)
    previous = signal.signal(signal.SIGALRM, _took_too_long)
    signal.alarm(SETUP_TIMEOUT)
    try:
        proc.wait()
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)


class SetupClock:
    """Times a fresh interpreter importing fairdiv.cli and loading one
    round's input files. After one untimed run, samples are taken between
    operations, spread over the measured loop, each between two gauge
    readings. ``times`` holds wall seconds, ``scaled`` seconds at reference
    speed."""

    def __init__(self, files, seconds, gauge: Gauge):
        self.argv = [sys.executable, "-c", SETUP_CODE, SRC, *files]
        self.interval = seconds / SETUP_REPS
        self.gauge = gauge
        self.times = []
        self.scaled = []
        self.last = None
        _run_child(self.argv)

    def sample(self) -> None:
        reading = self.gauge.read()
        self.last = perf_counter()
        _run_child(self.argv)
        self.times.append(perf_counter() - self.last)
        self.gauge.read()
        self.scaled.append(self.times[-1] * self.gauge.scale(reading))

    def sample_if_due(self) -> None:
        if self.last is None or perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample()
        return statistics.median(self.scaled)


def round_files(ops) -> list:
    return sorted({a for op in ops for a in op["argv"] if a.endswith(".json")})


def slot_times(seconds, slots) -> list:
    """Each slot's median operation time over the rounds run."""
    by_slot = defaultdict(list)
    for t, slot in zip(seconds, slots):
        by_slot[slot].append(t)
    return [statistics.median(by_slot[k]) for k in sorted(by_slot)]


def measure(main, manifest, seconds, trace, setup: SetupClock, gauge: Gauge):
    """Run round after round until ``seconds`` of operations have passed
    and the first round is whole, with set-up samples and gauge readings
    between operations. Returns the list of (op, plain run, traced run or
    None), the slot of each, the index of the gauge reading taken before
    each, the wall time spent in operations and the tracer."""
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    for op in manifest["warmup"]:
        run_op(main, op["argv"])
    rounds = manifest["rounds"]
    done, slots, readings = [], [], []
    busy = 0.0
    r = 0
    while True:
        for slot, op in enumerate(rounds[r % len(rounds)]):
            if r and busy >= seconds:
                gauge.read()
                return done, slots, readings, busy, tracer
            setup.sample_if_due()
            readings.append(gauge.read_if_due())
            start = perf_counter()
            if tracer is None:
                done.append((op, run_op(main, op["argv"]), None))
            else:
                done.append((op, *run_twins(main, op["argv"], tracer, len(done), gauge)))
            busy += perf_counter() - start
            slots.append(slot)
        r += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fairdiv", "cli.py")):
        print(f"bench: no fairdiv sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work) -> int:
    manifest = generate(args.workload, args.seed, work)
    if hasattr(os, "sched_setaffinity"):
        # one vCPU for the operations, the gauge and the set-up child alike,
        # so that the gauge reads the speed of the processor that did the work
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    gauge = Gauge()
    setup = SetupClock(round_files(manifest["rounds"][0]), args.seconds, gauge)

    sys.path.insert(0, SRC)
    import fairdiv.cli
    if not os.path.abspath(fairdiv.cli.__file__).startswith(SRC + os.sep):
        print(f"bench: imported fairdiv from {fairdiv.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    done, slots, readings, wall, tracer = measure(fairdiv.cli.main, manifest, args.seconds,
                                                  args.trace, setup, gauge)
    if args.trace:
        twins = twin_scales(gauge, readings)
        scales = [plain for plain, _ in twins]
    else:
        scales = [gauge.scale(j) for j in readings]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    instances = {}
    failed = tally(done, instances)
    attempted = len(done)
    probe_failed = _defect_probe(fairdiv.cli.main, manifest.get("probe"), instances)

    seconds = [plain.seconds for _, plain, _ in done]
    scaled = [t * k for t, k in zip(seconds, scales)]
    per_slot = slot_times(scaled, slots)
    correct_share = (attempted - failed) / attempted
    end_to_end = {
        "ops_per_s": (correct_share * len(per_slot) / sum(per_slot), "1/s", attempted),
        "op_p50_s": (statistics.median(per_slot), "s", attempted),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
        "setup_s": (setup.median(), "s", len(setup.times)),
    }
    print(f"workload {args.workload}, seed {args.seed}: {manifest['why']}")
    print(f"  {attempted} operations in {wall:.3f} s of closed loop, one caller"
          + (", each run plain and traced; plain times below" if args.trace else ""))
    print(f"  {len(per_slot)} slots a round; reference workload "
          f"{1000 * statistics.median(gauge.readings):.4g} ms (median of "
          f"{len(gauge.readings)}), {1000 * gauge_mod.REFERENCE_S:.4g} ms at reference speed")
    print(f"  wall clock: {(attempted - failed) / sum(seconds):.6g} correct ops/s, "
          f"median op {statistics.median(seconds):.6g} s, "
          f"median set-up {statistics.median(setup.times):.6g} s")
    for name, (value, unit, samples) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit} (n={samples})")
    tail_point = tail(scaled)
    if tail_point:
        print(f"  op_tail_s      {tail_point[1]:.6g} s (p{tail_point[0]}, n={attempted})")
    else:
        print(f"  op_tail_s      omitted: {attempted} samples leave fewer than ten beyond p51")
    print(f"  failed_ratio   {failed / attempted:.6g} ({failed} of {attempted})")
    if probe_failed is not None:
        print(f"  known-defect probe (verify --property po, 1 agent x "
              f"{gen.DEEP_PO_ITEMS} items): {'fails' if probe_failed else 'passes'}")

    if args.trace:
        layers = _layer_report(args, tracer, done, twins, probe_failed)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _defect_probe(main, op, instances):
    """Run the known-defect probe outside the measured loop; True if it fails."""
    if op is None:
        return None
    return bool(problems(op, run_op(main, op["argv"]), instances))


def _layer_report(args, tracer, done, twins, probe_failed) -> dict:
    from spans import layer_metrics
    traced_s = sum(t.seconds * k for (_, _, t), (_, k) in zip(done, twins))
    plain_s = sum(p.seconds * k for (_, p, _), (k, _) in zip(done, twins))
    layers = layer_metrics(tracer.spans, len(done))
    layers["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
    layers["verify.po_deep_failed"] = (int(bool(probe_failed)), "count")
    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "ops": len(done),
                        "metrics": layers})
    print(f"  traced: {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    return layers


if __name__ == "__main__":
    sys.exit(main())
