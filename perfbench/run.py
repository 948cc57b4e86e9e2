"""distillab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload distil --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from `src/`.
`--trace 0` prints every end-to-end metric; `--trace 1` runs half the time
untraced, then a fixed number of rounds traced, prints self time per layer
and the tracing overhead, writes the spans under `.bench_out/`, and reports
every per-layer metric. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--smoke` runs every workload
for one untraced round and its traced rounds, and checks that each metric in
BENCHMARK.json is emitted with its unit and that every output check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The timed loop runs in SEGMENTS parts with SETUPS_PER_SEGMENT set-ups before
# each; setup_s is the median of all set-ups. A set-up lasts about 0.15 s and
# the machine's speed drifts over tens of seconds, so set-ups spread over the
# whole run give a steadier median than set-ups bunched at its start.
SEGMENTS = 5
SETUPS_PER_SEGMENT = 3
SETUPS = SEGMENTS * SETUPS_PER_SEGMENT
DEFAULT_SEED = 0
# The traced run traces a fixed set of rounds, so that its computed counts
# repeat exactly for a seed and its times compare the same work.
TRACED_ROUND = 2048


# The model's matrices are at most a few hundred rows by 256 columns: a
# second BLAS thread measured no faster on two cores, and spinning threads
# make timings depend on whatever else shares the machine.
BLAS_THREADS = 1


def pin_blas() -> None:
    """Pin the BLAS thread count before numpy loads its BLAS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library() -> None:
    src = ROOT / "src"
    if not (src / "distillab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src / 'distillab'}; "
                 "run from the root of a distillab checkout")
    sys.path.insert(0, str(src))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Timed rounds of one workload. Each operation ends with one clock read;
    latencies are differences of consecutive reads, so work between rounds
    of one `run` lands in the next operation."""

    def __init__(self, wl, seed, reference):
        self.wl, self.seed, self.reference = wl, seed, reference
        self.next_round = 0
        self.latencies_ms: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run(self, st, seconds: float, tracer=None,
            rounds: int | None = None) -> tuple[float, float]:
        """Run whole rounds for at least `seconds` (at least one round), or
        exactly `rounds` rounds starting at round TRACED_ROUND when given;
        return (input audio seconds, wall seconds)."""
        from workloads import SAMPLE_RATE
        stamps: list[float] = []
        samples = [0]

        def stamp():
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.step += 1

        def meter(n):
            samples[0] += n

        if rounds is not None:
            self.next_round = TRACED_ROUND
        with self.wl.hooks(stamp, meter):
            stamps.append(time.perf_counter())
            t0 = stamps[0]
            while True:
                r = self.next_round
                self.next_round += 1
                try:
                    res = self.wl.round(st, self.seed, r, stamp, meter, self.reference)
                    ops, errors = res.ops, res.errors
                except Exception as exc:  # a raising round counts as failed ops
                    ops, errors = self.wl.ops_per_round, [f"round {r} raised {exc!r}"]
                self.attempted += ops
                if errors:
                    self.failed += ops
                    self.errors.extend(errors)
                if rounds is None:
                    # A fresh clock read: a round that raised adds no stamp.
                    if time.perf_counter() - t0 >= seconds:
                        break
                elif self.next_round - TRACED_ROUND == rounds:
                    break
            elapsed = time.perf_counter() - t0
        self.latencies_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
        return samples[0] / SAMPLE_RATE, elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed loop, check outputs; return the result line and
    the printable report lines."""
    import numpy as np
    import workloads
    from tracing import Tracer, per_layer_units

    wl = workloads.WORKLOADS[workload]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref = reference[workload].get(str(seed))
    env = environment(workload, seed)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None
    loop = Loop(wl, seed, ref)
    setup_times = []
    untraced_seconds = seconds / 2 if trace else seconds
    audio = elapsed = 0.0
    try:
        for segment in range(SEGMENTS):
            if tracer is not None:
                tracer.install()
            for _ in range(SETUPS_PER_SEGMENT):
                shutil.rmtree(work, ignore_errors=True)
                t0 = time.perf_counter()
                st = wl.setup(work, seed)
                setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
            # Aim each segment at its share of the total, so overshoot of
            # one segment's last round does not add up across segments.
            target = untraced_seconds * (segment + 1) / SEGMENTS - elapsed
            a, e = loop.run(st, target)
            audio += a
            elapsed += e
        rate = audio / elapsed
        if tracer is not None:
            tracer.step = 0
            tracer.install()
            a, e = loop.run(st, 0.0, tracer, rounds=wl.traced_rounds)
            traced_rate = a / e
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    lat = loop.latencies_ms
    if not lat:
        sys.exit(f"perfbench: no operation completed: {'; '.join(loop.errors[:3])}")
    e2e = {"setup_s": (statistics.median(setup_times), "s"),
           "audio_s_per_s": (rate, "s/s"),
           "step_ms_p50": (float(np.percentile(lat, 50)), "ms"),
           "step_ms_p90": (float(np.percentile(lat, 90)), "ms"),
           "peak_rss_mb": (peak_rss_mb(), "MB")}
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in e2e.items()]
    lines.append(f"metric failed_frac {loop.failed / loop.attempted:.6g} ratio")
    lines.append(f"samples step_ms {len(lat)} setup_s {len(setup_times)}")
    lines += [f"error {e}" for e in loop.errors[:10]]
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        units = per_layer_units()
        traced_ops = tracer.step
        values = tracer.metrics(traced_ops, SETUPS)
        values["trace.untraced_audio_s_per_s"] = rate
        values["trace.traced_audio_s_per_s"] = traced_rate
        values["trace.overhead_pct"] = (rate / traced_rate - 1.0) * 100.0
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        times = tracer.span_times()
        lines.append(f"self time per layer over {traced_ops} traced operations:")
        for (name, phase), (busy, self_ms) in sorted(times.items(), key=lambda kv: -kv[1][1]):
            n = traced_ops if phase == "loop" else SETUPS
            lines.append(f"  {name:<36} {phase:<5} self {self_ms / n:10.3f} "
                         f"busy {busy / n:10.3f} ms/{'op' if phase == 'loop' else 'setup'}")
        lines.append(f"tracing overhead {values['trace.overhead_pct']:.2f}% "
                     f"(audio_s_per_s untraced {rate:.4g}, traced {traced_rate:.4g})")
        spans_path = out_dir / f"trace-{workload}-seed{seed}.json"
        tracer.write(spans_path, env)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    return {"lines": lines, "result": result}


def smoke() -> int:
    """Short runs of every workload in both modes; every metric named in
    BENCHMARK.json must be emitted with its unit, and every output check must
    pass."""
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = measure(name, DEFAULT_SEED, 0.0, trace)["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))}"
                                f" or units differ from BENCHMARK.json")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            print(f"smoke {name} trace={int(trace)} attempted={res['attempted']} "
                  f"failed={res['failed']}")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("distil", "finetune", "analyze"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pin_blas()
    import_library()
    if args.smoke:
        return smoke()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
