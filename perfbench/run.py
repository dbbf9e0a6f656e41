#!/usr/bin/env python3
"""Run one workload of the ssRec benchmark.

    python3 perfbench/run.py --workload serve --seed 42 --seconds 10 --trace 0

Run from the repository root. The first run in a checkout compiles the
harness together with the repository's sources (sbt, offline); later runs
reuse the build while no source changed. The last line printed is the result
object; the line before it is the run record. See perfbench/README.md.
"""
import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"
CORES = 4  # Spark's local[N], capped at the machine's CPU count


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = [os.path.join(HERE, f) for f in ("build.sbt", "jvm.options",
                                             os.path.join("project", "build.properties"))]
    for base in (os.path.join(HERE, "src", "main"), os.path.join(ROOT, "src", "main", "scala")):
        files += sorted(glob.glob(os.path.join(base, "**", "*.scala"), recursive=True))
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    """The Spark distribution: $SPARK_HOME, else the first one whose
    bin/spark-submit is on PATH."""
    candidates = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in candidates:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("no Spark distribution found: set SPARK_HOME")


def sbt(*tasks, timeout):
    """Run sbt in the benchmark's directory, keeping its state under target/."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SPARK_HOME"] = spark_home()
    env["JAVA_TOOL_OPTIONS"] = (env.get("JAVA_TOOL_OPTIONS", "") + " -XX:-UsePerfData").strip()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
           f"-Dsbt.ivy.home={os.path.join(TARGET, 'ivy')}",
           f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData",
           "-Dsbt.server.autostart=false", *tasks]
    proc = subprocess.Popen(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the repository's sources (src/main/scala) are missing; nothing to build")
    digest = source_hash()
    stamp = os.path.join(TARGET, "build.stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return digest
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    if sbt("compile", timeout=BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return digest


def commit(digest):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "source-sha256:" + digest[:16]
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "source-sha256:" + digest[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    digest = build()

    cores = min(CORES, os.cpu_count() or 1)
    work = os.path.join(OUT, f"work-{os.getpid()}")  # this run's Spark and JVM temporary files
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(HERE, "jvm.options")) as fh:
        jvm_opts = [line.strip() for line in fh if line.strip()]
    spark_jars = os.path.join(spark_home(), "jars", "*")
    classes = os.path.join(TARGET, "scala-2.13", "classes")
    cmd = ["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData", *jvm_opts,
           "-cp", os.pathsep.join([classes, spark_jars]), "repro.perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds), "--trace", args.trace,
           "--cores", str(cores), "--work-dir", work, "--commit", commit(digest)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
