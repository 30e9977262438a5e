#!/usr/bin/env python3
"""Benchmark entry point.

Builds the program (src/main/scala) together with the harness in
perfbench/scala, then runs one workload in a single JVM and relays its
result. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload table7-celebrity --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. Spark and the Scala compiler are taken
from $SPARK_HOME/jars. Build output, Spark scratch space and temporary files
go to .bench_build/perfbench in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_DIR = os.path.join(ROOT, "perfbench")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
HARNESS_SRC = os.path.join(HARNESS_DIR, "scala")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD_DIR, "classes")
STAMP = os.path.join(BUILD_DIR, "classes.sha256")

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
HEAP = "3g"

# What spark-submit adds on Java 17 so that Spark may reach JDK internals.
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def scala_sources(root):
    out = []
    for d, _, files in os.walk(root):
        out.extend(os.path.join(d, f) for f in files if f.endswith(".scala"))
    return sorted(out)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must point at a Spark distribution with a jars/ directory")
    return os.path.join(home, "jars")


def build(jars):
    """Compile program + harness with scalac unless the sources are unchanged."""
    sources = scala_sources(PROGRAM_SRC) + scala_sources(HARNESS_SRC)
    if not scala_sources(PROGRAM_SRC):
        fail(f"no program sources under {os.path.relpath(PROGRAM_SRC, ROOT)}")
    h = hashlib.sha256()
    for path in sources:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    digest = h.hexdigest()
    if os.path.exists(STAMP) and open(STAMP).read().strip() == digest:
        return
    compiler = [os.path.join(jars, f"scala-{c}-2.13.17.jar")
                for c in ("compiler", "library", "reflect")]
    for jar in compiler:
        if not os.path.exists(jar):
            fail(f"Scala compiler jar missing: {os.path.basename(jar)}")
    staging = CLASSES + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", staging,
           "-classpath", os.path.join(jars, "*")] + sources
    print(f"perfbench: compiling {len(sources)} sources", file=sys.stderr)
    try:
        subprocess.run(cmd, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.replace(staging, CLASSES)
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def java_cmd(jars, main_args):
    scratch = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
             f"-Djava.io.tmpdir={scratch}",
             f"-Dlog4j2.configurationFile={os.path.join(HARNESS_DIR, 'log4j2.properties')}",
             "-Dspark.ui.enabled=false",
             "-Dspark.driver.host=127.0.0.1",
             f"-Dspark.local.dir={scratch}",
             f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}"]
            + JAVA_MODULE_OPTS
            + ["-cp", os.pathsep.join([CLASSES, os.path.join(jars, "*")]),
               "repro.perfbench.Main"] + main_args)


def run_jvm(cmd):
    """Run the harness JVM; return its stdout lines, or None on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: harness exited with {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the harness's own tests instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    jars = spark_jars()
    build(jars)
    if args.selftest:
        sys.exit(subprocess.run(java_cmd(jars, ["--selftest"]), cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)

    lines = run_jvm(java_cmd(jars, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]))
    if not lines:
        sys.exit(1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
