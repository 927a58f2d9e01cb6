"""Recompute ``digests.json``: the sha256 of every report, per workload and
seed, as produced by the code in this checkout.

    python3 bench/pin.py [workload ...]

Each report must pass its known-answer check before it is pinned.
Seeds 0-99 are pinned.  Requests that do not depend on the seed are pinned
once, under "fixed".
Reports must stay byte-identical, so re-pinning is only for a deliberate
change of the report format.
"""

import argparse
import json
import sys

import run
import workloads

PINNED_SEEDS = range(100)


def pin(workload: str) -> dict:
    fixed, seeded = {}, {}
    for seed in PINNED_SEEDS:
        workdir = run.WORK / f"pin-{workload}-{seed}"
        cli, requests = run.setup(workload, seed, workdir)
        requests = [r for r in requests if r.seeded or r.name not in fixed]
        if not requests:
            run.shutil.rmtree(workdir)
            break
        verifier = run.Verifier(workload, seed, workdir / "report.json", pins={})
        run.run_pass(cli, requests, verifier)
        if verifier.problems:
            raise SystemExit(f"{workload} seed {seed}: " + "; ".join(verifier.problems))
        for req in requests:
            digest = verifier.expected[req.name][1]
            if req.seeded:
                seeded.setdefault(str(seed), {})[req.name] = digest
            else:
                fixed[req.name] = digest
        run.shutil.rmtree(workdir)
        print(f"{workload} seed {seed}: {len(requests)} pinned", file=sys.stderr)
    return {"fixed": dict(sorted(fixed.items())), "seeded": seeded}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*", help=f"default: all of {', '.join(workloads.WORKLOADS)}")
    args = parser.parse_args()
    unknown = set(args.workload) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {', '.join(sorted(unknown))}")
    path = run.BENCH / "digests.json"
    out = json.loads(path.read_text())
    out.update({w: pin(w) for w in args.workload or workloads.WORKLOADS})
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
