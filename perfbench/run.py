#!/usr/bin/env python3
"""Builds and runs the layer-ledger benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fd-replay-d200 --seed 1 --seconds 10 --trace 0

The benchmark package under perfbench/ is built with cargo (offline, release)
into $CARGO_TARGET_DIR, or .bench_build/ when that is unset. The seeded input
and its reference scores are generated by a separate process into
.bench_work/, so the measuring process's peak memory covers only the
measured sessions. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fd-replay-d200", "ingest-d8", "fd-live-d48")
PACKAGE = Path("perfbench")
WORK = Path(".bench_work")


def rust_line_counts(root):
    """Non-blank Rust lines per crate under crates/, leaving out tests/
    directories and inline #[cfg(test)] modules."""
    counts = {}
    crates = root / "crates"
    if not crates.is_dir():
        return counts
    for crate in sorted(p for p in crates.iterdir() if p.is_dir()):
        total = 0
        for path in crate.rglob("*.rs"):
            if "tests" in path.relative_to(crate).parts[:-1]:
                continue
            total += count_non_test_lines(path.read_text(encoding="utf-8", errors="replace"))
        counts[crate.name] = total
    return counts


def count_non_test_lines(text):
    lines = text.splitlines()
    total = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        nxt = lines[i + 1].strip() if i + 1 < len(lines) else ""
        if stripped == "#[cfg(test)]" and re.match(r"(pub(\(crate\))? )?mod \w+ \{", nxt):
            depth = 0
            i += 1
            while i < len(lines):
                depth += lines[i].count("{") - lines[i].count("}")
                i += 1
                if depth <= 0:
                    break
            continue
        if stripped:
            total += 1
        i += 1
    return total


def commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest(root):
    """SHA-256 over the repository's Rust sources and lock file, naming the
    code under test where no git metadata is available."""
    h = hashlib.sha256()
    paths = sorted((root / "crates").rglob("*.rs")) + [root / "Cargo.lock"]
    for path in paths:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    manifest = root / PACKAGE / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(manifest)],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    binary = target / "release" / "sketchad-perfbench"

    work = root / WORK
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    files = [work / f"{args.workload}-{args.seed}.{ext}" for ext in ("rows", "ref")]
    try:
        gen = subprocess.run([str(binary), "gen", *common], stdout=sys.stderr)
        if gen.returncode != 0:
            print("error: generating the input failed", file=sys.stderr)
            return 1
        context = {
            "commit": commit(root),
            "source_sha256": source_digest(root),
            "rust_lines": rust_line_counts(root),
        }
        sys.stdout.flush()
        measure = subprocess.run(
            [
                str(binary),
                "measure",
                *common,
                "--seconds",
                str(args.seconds),
                "--trace",
                args.trace,
                "--context",
                json.dumps(context, sort_keys=True),
            ]
        )
        return measure.returncode
    finally:
        for f in files:
            f.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
