"""Record the sweep CSV digests of the shipped seeds into digests.json.

    python3 perfbench/record_digests.py

Run it only when a sweep workload's command line changes (its shape or trial
count), never to make a changed output pass: the digests pin navlim's sweep
CSVs byte for byte.
"""

import json
import sys
import tempfile

import run  # sets the BLAS thread count before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.ROOT)]

from perfbench import metrics, workloads  # noqa: E402


def main() -> int:
    recorded = {}
    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        for workload in (workloads.SWEEP_TIME, workloads.SWEEP_NODES):
            table = recorded.setdefault(workload.name, {})
            for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
                result = workload.call(seed, 0, out_dir)
                if result.error or result.failed:
                    print(f"{workload.name} seed {seed}: {result.error or 'failed trials'}", file=sys.stderr)
                    return 1
                problems = workload.check_csv(seed, result.output)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                table[str(seed)] = {
                    "argv": workload.digest_argv(seed),
                    "sha256": metrics.sha256(result.output),
                }
    path = workloads.DIGESTS
    path.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
