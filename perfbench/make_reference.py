"""Regenerate reference.json: the round-0 outputs of every workload (first
and last loss of distil and finetune, error rate of analyze) for workload
seeds 0-19. Run from the root of the checkout whose outputs are the
reference:

    python3 perfbench/make_reference.py
"""

import json
import shutil

import run

SEEDS = range(20)


def main() -> None:
    run.pin_blas()
    run.import_library()
    import workloads

    reference = {}
    work = run.ROOT / ".bench_out" / "work-reference"
    try:
        for name, wl in workloads.WORKLOADS.items():
            reference[name] = {}
            for seed in SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                st = wl.setup(work, seed)
                res = wl.round(st, seed, 0, lambda: None, lambda n: None, None)
                if res.errors:
                    raise SystemExit(f"{name} seed {seed}: {res.errors}")
                reference[name][str(seed)] = res.summary
                print(name, seed, res.summary, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
