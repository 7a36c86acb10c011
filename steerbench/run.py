#!/usr/bin/env python3
"""Builds the steering benchmark from this checkout's sources and runs it.

    python3 steerbench/run.py --workload steer_session|steer_rpc|media_relay \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is compiled (Release) into
$CARGO_TARGET_DIR/steerbench, or .bench_build/steerbench when that is unset;
build output goes to stderr, so the last line on stdout is the result JSON
the binary prints. A traced run also writes its spans to
<build dir>/trace-<workload>.csv. Exits with the binary's code, or 2 without
a result when the program's sources are not next to the benchmark or the
build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "steerbench")


def git_sha():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "none (not a git checkout)"
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "steerbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if path.endswith(".pyc"):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("steerbench: the program's sources (CMakeLists.txt "
                         "and src/) are not next to the benchmark\n")
        return None
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", bdir, "--target", "steerbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if compiled.returncode != 0:
        return None
    return os.path.join(bdir, "steerbench")


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    workload = "unknown"
    if "--workload" in argv[:-1]:
        workload = argv[argv.index("--workload") + 1]
    command = [binary] + argv + [
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
        "--trace-file", os.path.join(bdir, "trace-%s.csv" % workload),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
