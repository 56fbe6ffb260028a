#!/usr/bin/env python3
"""Build and run the shelfsim host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload run-4t --seed 0 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
simulator library from ../src) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Later runs only re-check the build. The last
line of stdout is the result JSON {correct, attempted, failed, metrics};
build output goes to stderr.

Options passed through to the benchmark binary:
    --held-out    draw the workload's inputs from the held-out seed range
    --tiny        short windows and few mixes (self-tests; not pinned)

Fingerprint maintenance:
    python3 perfbench/run.py --pin 0-31 --pin-held-out 0-7
recomputes perfbench/fingerprints.json, the simulated fingerprints every
run is checked against. Only a change that alters simulated behaviour on
purpose should ever need it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "fingerprints.json"
WORKLOADS = ["run-4t", "sweep-fig10", "sweep-isolated", "replay-cmp"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then bring the binary up to date; stderr only."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "perfbench"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pin(binary, seeds, held_out_seeds):
    pins = {}
    work = build_dir() / "work" / f"pin-{os.getpid()}"
    try:
        for w in WORKLOADS:
            pins[w] = {}
            for held_out, seeds_ in ((False, seeds), (True, held_out_seeds)):
                for s in seeds_:
                    cmd = [str(binary), "--workload", w, "--seed", str(s),
                           "--work-dir", str(work), "--print-fingerprint"]
                    if held_out:
                        cmd.append("--held-out")
                    out = subprocess.run(cmd, capture_output=True, text=True)
                    if out.returncode != 0:
                        sys.exit(f"perfbench: {w} seed {s} failed:\n"
                                 f"{out.stdout}{out.stderr}")
                    fp = out.stdout.strip().splitlines()[-1]
                    key = f"{'held-out' if held_out else 'seed'}:{s}"
                    pins[w][key] = fp.removeprefix("fingerprint ")
                    print(w, key, pins[w][key], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--held-out", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--pin", type=seed_list, metavar="A-B")
    p.add_argument("--pin-held-out", type=seed_list, default=[],
                   metavar="A-B")
    args = p.parse_args()

    binary = build()
    if args.pin is not None:
        pin(binary, args.pin, args.pin_held_out)
        return 0
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")

    tag = f"{args.workload}-{'held-out' if args.held_out else 'seed'}" \
          f"{args.seed}{'-tiny' if args.tiny else ''}"
    work = build_dir() / "work" / f"{tag}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work),
           "--pins", str(PINS)]
    if args.trace == "1":
        cmd += ["--spans-out", str(build_dir() / "spans" / f"{tag}.json")]
    if args.held_out:
        cmd.append("--held-out")
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
